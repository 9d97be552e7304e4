"""Capacity bounds for single-mode phase-insensitive bosonic Gaussian channels.

Layers:

* :mod:`bosonic_bounds.gaussian_core` -- covariance-matrix calculus
  (entropies, symplectic spectra, fidelities, channel action).
* :mod:`bosonic_bounds.channels` -- phase-insensitive channel algebra,
  decompositions, approximate-degradability parameters.
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
    Decomposition,
    EpsilonReport,
    PhaseInsensitiveChannel,
    additive_noise,
    amplifier,
    decompose_amp_then_loss,
    decompose_loss_then_amp,
    degrading_simulation_check,
    epsilon_close_degradable,
    epsilon_degradable,
    is_entanglement_breaking,
    make_channel,
    pure_loss,
    thermal,
)
from .gaussian_core import (
    GaussianState,
    apply_gaussian_channel,
    beamsplitter_symplectic,
    binary_entropy,
    g_entropy,
    gaussian_entropy,
    mean_photon_number,
    reduce_state,
    symplectic_eigenvalues,
    thermal_state,
    tms_state,
    two_mode_fidelity,
    two_mode_squeezer_symplectic,
    vacuum_state,
)
from .optimize import BatchOptResult, minimize_batch

__version__ = "0.1.0"
