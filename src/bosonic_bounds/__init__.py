"""Capacity bounds for single-mode phase-insensitive bosonic Gaussian channels.

Layers:

* :mod:`bosonic_bounds.gaussian_core` -- the oracles' covariance calculus on
  array stacks (entropies, symplectic spectra, fidelities, channel action).
* :mod:`bosonic_bounds.channels` -- phase-insensitive channels in (tau, nu)
  form, approximate-degradability parameters, the degrading and simulating
  dilations.
* :mod:`bosonic_bounds.bounds` -- the capacity bounds themselves.
* :mod:`bosonic_bounds.optimize` -- deterministic bounded minimization, batched.
* :mod:`bosonic_bounds.verify` -- oracle-backed invariant suites.
* :mod:`bosonic_bounds.cli` -- the `boson-bounds` command-line front end.
"""

from .bounds import (
    BoundResult,
    PenaltyParams,
    comparison_bounds,
    gap_qu1_ql,
    gaussian_c_distance,
    p_bounds,
    p_lower_displaced,
    penalty,
    q_lower_amp,
    q_lower_thermal,
    q_u1,
    q_u1_unconstrained,
    q_u2,
    q_u3,
    q_u4,
    q_u4_unconstrained,
)
from .channels import (
    EpsilonReport,
    PhaseInsensitiveChannel,
    additive_noise,
    amplifier,
    degrading_simulation_check,
    epsilon_close_degradable,
    epsilon_degradable,
    make_channel,
    pure_loss,
    thermal,
)
from .gaussian_core import (
    beamsplitter_symplectic,
    binary_entropy,
    g_entropy,
    two_mode_squeezer_symplectic,
)
from .optimize import BatchOptResult, minimize_batch

__version__ = "0.1.0"
